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
from .errors import ParameterError
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


# ---------------------------------------------------------------------------
# Optimal policy via dynamic programming (ONC)
# ---------------------------------------------------------------------------


_SCORE_ENTRIES = 1 << 14  # scores a size search holds at once: 128 KiB, cache-sized


def _best_sizes(pop: PopularityDistribution, dist: CoverageDistribution, stages: int,
                blocks: int):
    """Best size x <= top = min(J, kmax) at every stage l and state n = 0..N, and value[0, 0]:
    value[l, n] = max_x A([n+1, n+x]) * Pbar(x) + value[l+1, n+x], value[stages] = 0, -inf
    past N. N = min(J, blocks * max(1, top)) is the most items ``blocks`` blocks hold (a
    forced first block has 1 item where kmax = 0), so no state past it is reached. Each row
    of scores is one state; its first argmax is the smallest best size. Blocks of states go
    last first, and only the values a block reads are kept."""
    top = min(pop.size, dist.kmax)
    prefix = pop.prefix[: min(pop.size, blocks * max(1, top)) + 1]
    J = prefix.size - 1
    window = np.lib.stride_tricks.sliding_window_view
    reach = window(np.append(prefix, np.full(top, prefix[-1])), top + 1)
    choice = np.empty((stages, J + 1), dtype=np.min_scalar_type(top))  # each one is <= top
    step = max(1, _SCORE_ENTRIES // (top + 1))
    value = np.full((stages + 1, step + top), -np.inf)  # column i: state start + i
    ahead = window(value, top + 1, axis=1)  # a view: it sees each stage as it is written
    for start in reversed(range(0, J + 1, step)):  # last block first: its gains serve every stage
        n = min(step, J + 1 - start)  # states in this block
        rows = slice(start, start + n)
        value[:, step:] = value[:, :top]  # the block after moves step columns on, keeping top
        value[stages, :n] = 0.0
        gains = (reach[rows] - prefix[rows, None]) * dist.tail[: top + 1]
        for l in reversed(range(stages)):
            scores = gains + ahead[l + 1, :n]
            choice[l, rows] = scores.argmax(axis=1)
            # the max at the argmax: a gather costs less than a second row reduction
            value[l, :n] = np.take_along_axis(scores, choice[l, rows, None], axis=1)[:, 0]
    return choice, value[0, 0]


def _chain(rows, n: int) -> list:
    """The sizes a chain of choices takes from state n: rows[i][n] at step i, n += it."""
    raw = []
    for row in rows:
        raw.append(int(row[n]))
        n += raw[-1]
    return raw


def _structured(raw, pop: PopularityDistribution, dist: CoverageDistribution,
                **diagnostics) -> SolverResult:
    """The structured policy of block sizes ``raw`` (any order), with its hit probability."""
    policy = StructuredPolicy(canonical_sizes(raw))
    return SolverResult(policy, hit_probability_structured(policy, pop, dist), diagnostics)


def solve_dp(pop: PopularityDistribution, dist: CoverageDistribution, L: int) -> SolverResult:
    """Maximize the hit probability over structured policies by backward DP.

    Stage l holding n already-cached items scores each candidate size x by
    A([n+1, n+x]) * Pbar(x) plus the best continuation; the argmax chain is
    unrolled into sizes and reported in canonical nondecreasing order
    (reordering stage optima never changes the value). A size past kmax is
    never decoded and never beats x = 0, so x <= kmax, and the states that
    stage l reaches hold at most l * kmax items: only n <= L * kmax are
    searched, O(L * min(J, L * kmax) * min(J, kmax)) flops; the gains of a
    block of states serve every stage.
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    choice, value = _best_sizes(pop, dist, L, L)
    raw = _chain(choice, 0)
    return _structured(raw, pop, dist, dp_value=float(value), raw_sizes=raw,
                       stage_maximizations=choice.size)


# ---------------------------------------------------------------------------
# Greedy with general blocks (GGB)
# ---------------------------------------------------------------------------


def greedy_general(pop: PopularityDistribution, dist: CoverageDistribution, K: int) -> SolverResult:
    """Greedy marginal-gain policy over arbitrary content subsets.

    The first block is the best popularity prefix. Each later block adds,
    over candidate cardinalities c = 1..max(1, min(J, kmax)), the top-c
    items ranked by the marginal gain a_j * (Pbar(c) - Pbar(r_j))^+ where
    r_j is the smallest block already covering j; the best (c, set) pair
    wins (a larger c gains 0). Ties prefer smaller cardinality, then the
    lexicographically smallest item set. A block of sizes shares one gain
    matrix and one stable row argsort, over the items up to the
    max(1, min(J, kmax))-th uncached one only: an item past it gains at most
    a_j * Pbar(c), which that many uncached items of smaller index reach
    (a_i >= a_j holds exactly, by the popularity's type), so the stable sort
    never ranks it among the top c.
    """
    if K < 1:
        raise ParameterError(f"block count must be >= 1, got {K}")
    J = pop.size
    probs = pop.probs
    tails = dist.tail
    sizes = range(1, max(1, min(J, dist.kmax)) + 1)

    m1 = max(1, int(_best_sizes(pop, dist, 1, 1)[0][0, 0]))  # the first block: state 0's best
    blocks = [frozenset(range(1, m1 + 1))]
    r = np.full(J, dist.kmax + 1, dtype=int)  # "not cached anywhere": tail[kmax + 1] is 0
    r[:m1] = m1

    for _ in range(2, K + 1):
        uncached = np.flatnonzero(r > dist.kmax)
        P = J if uncached.size < len(sizes) else int(uncached[len(sizes) - 1]) + 1
        covered_tail = tails[r[:P]]
        step = max(1, _SCORE_ENTRIES // P)  # sizes scored at once
        best = None  # (gain, c, top_indices)
        for s in range(0, len(sizes), step):
            c_rows = np.arange(1 + s, 1 + min(s + step, len(sizes)))
            g = probs[:P] * np.maximum(tails[c_rows, None] - covered_tail, 0.0)
            order = np.argsort(-g, axis=1, kind="stable")[:, : c_rows[-1]]
            ranked = np.take_along_axis(g, order, axis=1)
            for i, c in enumerate(c_rows.tolist()):
                gain = float(ranked[i, :c].sum())
                if best is None or gain > best[0]:
                    best = (gain, c, np.sort(order[i, :c]))
        _, c, top = best
        blocks.append(frozenset(int(j) + 1 for j in top))
        r[top] = np.minimum(r[top], c)

    policy = GeneralPolicy(tuple(blocks))
    hit = hit_probability_general(policy, pop, dist)
    return SolverResult(
        policy=policy,
        hit_prob=hit,
        diagnostics={"candidate_evaluations": K * len(sizes)},
    )


# ---------------------------------------------------------------------------
# Greedy with disjoint consecutive blocks (GDBNC)
# ---------------------------------------------------------------------------


def greedy_disjoint(
    pop: PopularityDistribution, dist: CoverageDistribution, L: int
) -> SolverResult:
    """Greedy over consecutive disjoint blocks of the popularity ranking.

    Each block takes the size maximizing A([used+1, used+m]) * Pbar(m), up
    to kmax (a larger one gains 0, as m = 0 does; the first block has m >= 1),
    read from one search over every used = 0..min(J, L * max(1, kmax))
    (``_best_sizes``, one stage). The result is reported in canonical order.
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    size = _best_sizes(pop, dist, 1, L)[0][0]
    first = max(1, int(size[0]))
    raw = [first, *_chain([size] * (L - 1), first)]
    return _structured(raw, pop, dist, raw_sizes=raw)


# ---------------------------------------------------------------------------
# Most-popular baseline (MP)
# ---------------------------------------------------------------------------


def most_popular(pop: PopularityDistribution, dist: CoverageDistribution, L: int) -> SolverResult:
    """Cache the L most popular items, one per block, no coding."""
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    return _structured([1] * min(L, pop.size), pop, dist)


# ---------------------------------------------------------------------------
# Independent randomized caching baseline (IND)
# ---------------------------------------------------------------------------


_POLISH_TOL = 1e-14  # stop once every Newton iterate moves by no more than this
_POLISH_MAX = 64  # Newton steps per solve; a start from the nearest solve above needs a few
_SETTLE = 1e-9 + 1e-10  # a trusted sum(b) this far past L settles its side; 1e-10 for rounding
_LN2 = math.log(2.0)  # a Newton step on sum(b) moves mu by at most a factor 2
_AIM = 1.5e-9  # a Newton step on sum(b) aims this far across L from its solve


def hit_probability_ind(
    policy: IndPolicy, pop: PopularityDistribution, dist: CoverageDistribution
) -> float:
    """P_hit of independent sampling: sum_j a_j (1 - G(1 - b_j)), G the coverage pgf."""
    if policy.b.size != pop.size:
        raise ParameterError("caching probabilities must cover the catalog exactly")
    hit_terms = pop.probs * (1.0 - npoly.polyval(1.0 - policy.b, dist.pmf))
    return math.fsum(hit_terms.tolist())


def _marginals(
    mu: float, probs: np.ndarray, gp0: float, gp1: float, deriv: np.ndarray, z_right: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """b(mu) from the KKT conditions: b_j = 1 where mu/a_j <= G'(0), 0 where
    mu/a_j >= G'(1), else 1 - z with G'(z) = mu/a_j; the spread
    -mu d sum(b)/dmu, the sum of G'(z)/G''(z) over those interior items, with
    G'' at each one's last evaluated iterate; and the Newton item-iterations,
    the steps taken times the interior items. The spread is nan where the
    solve is not to be trusted: the Newton loop stopped at ``_POLISH_MAX``,
    or an interior item's G'' is 0, and b there depends on the start.

    G' (coefficients ``deriv``) has nonnegative coefficients, so it is
    nondecreasing and convex on [0, 1], and Newton steps from any z with
    G'(z) >= mu/a_j fall monotonically to the root. ``z_right`` holds such a
    start for every item: 1 - b_j at any larger multiplier, since z_j grows
    with mu. Each step evaluates G' and G'' as one power-matrix product.
    """
    t = np.where(probs > 0.0, mu / np.where(probs > 0.0, probs, 1.0), np.inf)
    b, spread, items = np.zeros(probs.size), 0.0, 0
    b[t <= gp0] = 1.0
    mid = (t > gp0) & (t < gp1)
    if mid.any():
        t = t[mid]
        z = z_right[mid]
        deriv2 = deriv[1:] * np.arange(1, deriv.size)
        powers = np.empty((t.size, deriv.size))
        powers[:, 0] = 1.0
        for steps in range(1, _POLISH_MAX + 1):
            powers[:, 1:] = z[:, None]
            powers.cumprod(axis=1, out=powers)
            resid = powers @ deriv - t
            slope = powers[:, :-1] @ deriv2
            # G' and G'' both underflow to 0 where mu bisects down into the subnormals
            step = np.divide(resid, slope, out=np.zeros(t.size), where=slope > 0.0)
            z = z - step
            if abs(step).max() <= _POLISH_TOL:
                break
        b[mid] = 1.0 - z
        trusted = abs(step).max() <= _POLISH_TOL and slope.min() > 0.0
        # z G'' >= G' - G'(0) > 0, so each G'/G'' stays below z G'/(G' - G'(0)): no overflow
        spread = float((t / slope).sum()) if trusted else math.nan
        items = steps * t.size
    return b, spread, items


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
    once by Newton steps (``_marginals``), started from b at the nearest
    solved multiplier above.

    sum(b) is nonincreasing in mu, so a solve whose sum is at least
    L + 1e-9 + 1e-10 settles every midpoint at or below its mu as a lower
    end, and one whose sum is at most L - 1e-9 - 1e-10 every midpoint at or
    above as an upper end, with no solve; 1e-10 covers rounding and the
    start. A solve that is not to be trusted (see ``_marginals``) settles
    nothing. The search runs in two phases:

    1. Settle the band. Solve the bisection's first midpoint, then take
       Newton steps on sum(b) in log mu from the last solve, each aimed at
       L -+ 1.5e-9 across L from it, moving mu by at most a factor 2 and
       taken only strictly inside the unsettled bracket. Stop once each
       side is settled within 3e-9 of L, a step would leave the bracket, a
       solve settles nothing, or the spread is not positive.
    2. Run the plain bisection. A settled midpoint needs no solve; any
       other is solved, or reuses its phase-1 solve.

    So the midpoints, the multiplier and the mu steps are the plain
    bisection's, and b is its b to the start dependence of a Newton solve.

    Where G' is flat (constant, or flat to double precision), b(mu) jumps
    across the budget between adjacent doubles lo < hi. The bisection then
    stops and returns the point of the segment from b(hi) to b(lo) whose sum
    is L, with multiplier hi: only items at that multiplier change on it.

    Returns a ``SolverResult`` holding an ``IndPolicy``; its diagnostics
    give the number of mu steps, the final |sum(b) - L|, the ``_marginals``
    solves and their Newton item-iterations.
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    probs = pop.probs
    deriv = dist.pmf[1:] * np.arange(1, dist.pmf.size)
    solves = items = 0

    def result(b, mu, iterations=0):
        policy = IndPolicy(b=b, multiplier=mu)
        return SolverResult(
            policy=policy,
            hit_prob=hit_probability_ind(policy, pop, dist),
            diagnostics={
                "mu_iterations": iterations,
                "budget_gap": abs(float(policy.b.sum()) - L),
                "solves": solves,
                "newton_item_iterations": items,
            },
        )

    if L >= J:
        return result(np.ones(J), 0.0)

    gp0 = float(npoly.polyval(0.0, deriv)) if deriv.size else 0.0
    gp1 = float(npoly.polyval(1.0, deriv)) if deriv.size else 0.0

    b = np.zeros(J)
    b[:L] = 1.0
    if gp1 == 0.0:  # never covered: every b hits 0
        return result(b, 0.0)

    # just above a_1 G'(1) nothing is cached, as mu / a_j >= mu / a_1 for every j (a_1 >= a_j
    # holds exactly, by the popularity's type); past the mu = 0 exit, b(lo) overfills the budget
    lo, hi = 0.0, float(probs[0]) * gp1
    solved = {hi: np.zeros(J)}  # b by mu, kept for the starts a later solve takes
    sure_lo, sure_hi = lo, hi  # every midpoint <= sure_lo is a lower end, >= sure_hi an upper
    over = under = math.inf  # sum(b) - L at sure_lo, L - sum(b) at sure_hi, once a solve settles

    def solve(at):
        """sum(b(at)), solved from the nearest solve above; its spread; whether it settled a side."""
        nonlocal solved, sure_lo, sure_hi, over, under, solves, items
        # every later solve, and both ends at the jump exit, lie in [sure_lo, sure_hi]
        solved = {m: b for m, b in solved.items() if sure_lo <= m <= sure_hi}
        start = solved[min(m for m in solved if m > at)]
        b, spread, steps = _marginals(at, probs, gp0, gp1, deriv, 1.0 - start)
        solves, items = solves + 1, items + steps
        solved[at] = b
        total = float(b.sum())
        settles = abs(total - L) >= _SETTLE and not math.isnan(spread)
        if settles and total > L:
            sure_lo, over = at, total - L
        elif settles:
            sure_hi, under = at, L - total
        return total, spread, settles

    if solve(lo)[0] <= L + 1e-12:
        return result(solved[lo], lo)

    if lo < (mu := 0.5 * (lo + hi)) < hi:  # phase 1: settle the band around L
        total, spread, settles = solve(mu)
        while settles and spread > 0.0 and max(over, under) > 2.0 * _AIM:
            aim = L - _AIM if total > L else L + _AIM
            mu *= math.exp(max(-_LN2, min(_LN2, (total - aim) / spread)))
            if not sure_lo < mu < sure_hi:
                break
            total, spread, settles = solve(mu)

    iterations = 0  # phase 2: the plain bisection
    while lo < (mu := 0.5 * (lo + hi)) < hi:
        iterations += 1
        if sure_lo < mu < sure_hi:
            total = float(solved[mu].sum()) if mu in solved else solve(mu)[0]
            if abs(total - L) < 1e-9:
                return result(solved[mu], mu, iterations)
            lower = total > L
        else:
            lower = mu <= sure_lo
        if lower:
            lo = mu
        else:
            hi = mu
    # lo, hi are adjacent doubles: b jumps on a flat stretch of G'; meet the budget on the jump.
    # Both ends are solved: the solve that settled an unsolved end would lie between them
    b_lo, b_hi = solved[lo], solved[hi]
    theta = (L - b_hi.sum()) / (b_lo.sum() - b_hi.sum())
    return result(b_hi + theta * (b_lo - b_hi), hi, iterations)


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
